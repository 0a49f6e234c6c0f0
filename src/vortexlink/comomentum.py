"""The hydrodynamical homotopy co-momentum map and its bracket structures.

The tower is built from two maps on divergence-free fields:

    f1(b) = -(curl^-1 b) flat          (Coulomb gauge, so delta f1 = 0)
    f2(b, c) = Delta^-1 delta mu2(b, c)

with the closed 1-form

    mu2(b, c) = f1([b, c]) - nu(b, c, .)

where [.,.] is the Lie bracket entering the tower.  Closedness of mu2, the
bracket-defect identity and the triple evaluation identity force this to be
the standard Jacobi-Lie bracket, i.e. MINUS the hydrodynamical bracket
curl(b x c); see constants.TOWER_BRACKET_SIGN.  The hydrodynamical bracket
itself is kept for the vorticity dynamics.

On the torus the constant Fourier mode of mu2 is a genuine obstruction to
exactness (it equals -mean(b x c), which need not vanish); every identity
involving f2 therefore carries a harmonic certificate, and f2 refuses inputs
whose obstruction exceeds tolerance.

Checks run once, where outside fields enter: each public function gates
its inputs' divergence, then calls an unchecked core (`_hydro`, `_bracket`,
`_mu2`, `_f2`) that the tower shares.  A bracket is a spectral curl, so it is
never re-checked; `curl_inv` keeps its gate.  Each tower object is computed
once (`pair_identities`), and no suite's fields outlive it: each suite of
`comomentum_report` drops its fields before the next begins, and
`f2_of_boundary_triple` builds each bracket just before its f2.
"""

from __future__ import annotations

import numpy as np

from .constants import EPS_HAM, EPS_OBSTRUCTION, TOWER_BRACKET_SIGN
from .curves import dyadic_refinement
from .errors import ObstructedPotential
from .grid import Grid3, GridField, cross, dot
from .operators import (
    codiff,
    curl_inv,
    ext_d,
    hodge_star,
    laplace_inv,
    lie_derivative,
    require_divergence_free,
)
from .random_fields import tower_pair, tower_triple
from .reports import checked


def _require_solenoidal(what, *fields):
    """Gate each field's divergence; a field passed twice is checked once."""
    for i, x in enumerate(fields, 1):
        if not any(x is y for y in fields[:i - 1]):
            require_divergence_free(x, f"{what} arg {i}")


def _hydro(x1, x2):
    return hodge_star(ext_d(cross(x1, x2)))


def hydro_bracket(x1: GridField, x2: GridField) -> GridField:
    """curl(x1 x x2); closes in the divergence-free algebra."""
    _require_solenoidal("hydro_bracket", x1, x2)
    return _hydro(x1, x2)


def _bracket(x1, x2):
    return TOWER_BRACKET_SIGN * _hydro(x1, x2)


def tower_bracket(x1: GridField, x2: GridField) -> GridField:
    """The bracket entering mu2 / the wedge boundary / the defect identity."""
    _require_solenoidal("tower_bracket", x1, x2)
    return _bracket(x1, x2)


def pair_contraction(x1: GridField, x2: GridField) -> GridField:
    """iota_{x1 ^ x2} nu = nu(x1, x2, .) = (x1 x x2) flat."""
    return cross(x1, x2)


def f1(b: GridField) -> GridField:
    """Hamiltonian 1-form of b: minus the Coulomb-gauge potential, flat."""
    return -curl_inv(b)


def hamiltonian_residual(h: GridField, b: GridField) -> float:
    """Relative residual of d h + iota_b nu = 0."""
    lhs = ext_d(h) + hodge_star(b)
    den = b.sup_norm()
    return lhs.sup_norm() / den if den > 0 else lhs.sup_norm()


def _mu2(x1, x2):
    return f1(_bracket(x1, x2)) - pair_contraction(x1, x2)


def mu2(x1: GridField, x2: GridField) -> GridField:
    """The closed 1-form f1([x1,x2]) - nu(x1,x2,.) whose potential is f2."""
    _require_solenoidal("mu2", x1, x2)
    return _mu2(x1, x2)


def _harmonic_part(m: GridField) -> float:
    """Torus-exactness certificate of a 1-form: its largest component mean
    (the harmonic part on the flat torus) relative to its sup norm."""
    sup = m.sup_norm()
    harm = float(np.max(np.abs(m.mean())))
    return harm / sup if sup > 0 else harm


def mu2_certificates(m: GridField) -> dict:
    """Closedness and torus-exactness (harmonic part) certificates."""
    sup = m.sup_norm()
    dm = ext_d(m).sup_norm()
    return {
        "closedness": dm / sup if sup > 0 else dm,
        "harmonic_part": _harmonic_part(m),
    }


def _mu2_potential(m: GridField) -> tuple[GridField, float]:
    """The zero-mean potential Delta^-1 delta m of a closed 1-form and the
    harmonic part of m, gated on that part as f2 is."""
    harm = _harmonic_part(m)
    if harm > EPS_OBSTRUCTION:
        raise ObstructedPotential(
            f"harmonic part of mu2 is {harm:.3e} "
            f"(> {EPS_OBSTRUCTION:.1e}); no potential exists on the torus"
        )
    m_clean = GridField(m.grid, m.degree, m.comps - m.mean()[:, None, None, None])
    return laplace_inv(codiff(m_clean)), harm


def _f2(x1, x2):
    return _mu2_potential(_mu2(x1, x2))[0]


def f2(x1: GridField, x2: GridField) -> GridField:
    """Scalar potential of mu2 (zero mean): f2 = Delta^-1 delta mu2.

    Raises ObstructedPotential when mu2 has a harmonic part beyond
    tolerance, in which case no potential exists on the torus.
    """
    _require_solenoidal("f2", x1, x2)
    return _f2(x1, x2)


def f2_of_boundary_triple(x1, x2, x3) -> GridField:
    """f2 on the boundary d(x1^x2^x3) = -[x1,x2]^x3 + [x1,x3]^x2 - [x2,x3]^x1,
    building each bracket just before its f2 and dropping it after."""
    _require_solenoidal("f2_of_boundary_triple", x1, x2, x3)
    out = None
    for sign, a, b, partner in ((-1, x1, x2, x3), (+1, x1, x3, x2), (-1, x2, x3, x1)):
        term = sign * _f2(_bracket(a, b), partner)
        out = term if out is None else out + term
    return out


def pair_identities(b: GridField, c: GridField) -> dict:
    """Relative residuals, on the non-harmonic sector, of the potential
    equation d f2(b^c) = mu2(b, c) ("eq26") and the bracket-defect identity
    {f1(b), f1(c)} - f1([b, c]) + d f2(b^c) = 0 ("eq29"), with the harmonic
    part of mu2(b, c) ("harmonic_part").  The bracket, its f1, mu2, f2(b, c)
    and its d are computed once, by the operations mu2, f2 and f1 apply, so
    the values carry the bits of the identities evaluated one by one.

    With m = mu2(b, c) = f1([b, c]) - {f1(b), f1(c)}, eq. 29's numerator
    {f1(b), f1(c)} - f1([b, c]) + d f2 is eq. 26's d f2 - m element for
    element (IEEE subtraction is antisymmetric), so one numerator is made,
    its harmonic part removed once, and its sup read over sup |m| for eq26
    and over sup |{f1(b), f1(c)}| for eq29.  eq29 is therefore eq26 over
    another norm and cannot fail on its own.
    """
    pb = pair_contraction(b, c)
    m = f1(tower_bracket(b, c)) - pb
    potential, harm = _mu2_potential(m)
    num = ext_d(potential) - m
    num.comps -= num.mean()[:, None, None, None]
    sup = num.sup_norm()
    den26, den29 = m.sup_norm(), pb.sup_norm()
    return {
        "eq26": sup / den26 if den26 > 0 else sup,
        "eq29": sup / den29 if den29 > 0 else sup,
        "harmonic_part": harm,
    }


def triple_evaluation_residual(x1, x2, x3) -> float:
    """Pointwise relative residual of f2(boundary(x1^x2^x3)) = nu(x1,x2,x3)."""
    lhs = f2_of_boundary_triple(x1, x2, x3)
    target = dot(cross(x1, x2), x3)
    target -= target.mean()
    den = float(np.max(np.abs(target)))
    res = float(np.max(np.abs(lhs.comps[0] - target)))
    return res / den if den > 0 else res


def equivariance_defect(xi: GridField, b: GridField,
                        h: GridField | None = None) -> GridField:
    """L_xi f1(b) - f1([xi, b]); nonzero in general (Theorem on
    non-equivariance).  For xi = b this equals -d<B, b>, minus the
    differential of the helicity density.  `h` is f1(b) when the caller
    already holds it."""
    _require_solenoidal("equivariance_defect", xi, b)
    return lie_derivative(xi, f1(b) if h is None else h) - f1(_bracket(xi, b))


def kks_pairing(w: GridField, b: GridField, c: GridField) -> float:
    """The coadjoint-orbit symplectic pairing: integral of det[w, b, c]."""
    integrand = dot(w, cross(b, c))
    return float(np.sum(integrand) * w.grid.cell_volume)


def euler_vorticity_rhs(w: GridField) -> GridField:
    """Instantaneous right-hand side of the vorticity equation:
    dw/dt = -[w, v] with v = curl^-1 w (hydrodynamical bracket).  curl_inv
    gates w, and v is a Coulomb potential, so neither is checked again."""
    return -1 * _hydro(w, curl_inv(w))


# -- loop-space operations ---------------------------------------------------

def rasetti_regge(b: GridField, gamma) -> float:
    """Transgressed co-momentum along a closed curve: the line integral of
    f1(b), which equals minus the loop current of b.

    The 1-form is sampled by `interpolate.sample_form1_along`: exactly
    (fourier_eval) when its active spectrum is small, as for band-limited
    inputs, else trilinearly.  Each polygon segment uses the composite
    midpoint rule, refined by `curves.dyadic_refinement` up to 8 levels.
    """
    from .interpolate import sample_form1_along  # local: avoids cycle

    h = f1(b)
    return dyadic_refinement(lambda sub: sample_form1_along(h, gamma, subdiv=sub), 8)


def loop_2form(gamma, u: np.ndarray, v: np.ndarray) -> float:
    """Transgression of the volume form to loop space:
    Omega_gamma(u, v) = integral of nu(gamma', u, v) dt by the per-segment
    midpoint rule, with gamma' from vertex differences."""
    verts = gamma.vertices
    n = len(verts)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (n, 3) or v.shape != (n, 3):
        raise ValueError(f"need tangent data shaped ({n}, 3) matching the curve")
    nxt = np.roll(np.arange(n), -1)
    seg = verts[nxt] - verts  # gamma' dt over the segment
    um = 0.5 * (u + u[nxt])
    vm = 0.5 * (v + v[nxt])
    return float(np.sum(seg * np.cross(um, vm)))


# -- the identity suite ------------------------------------------------------

def abc_flow(grid, A=1.0, B=1.0, C=1.0) -> GridField:
    """The Arnold-Beltrami-Childress field; curl v = v when L = 2 pi."""
    x, y, z = grid.meshgrid()
    return GridField(grid, 1, np.stack([
        A * np.sin(z) + C * np.cos(y),
        B * np.sin(x) + A * np.cos(z),
        C * np.sin(y) + B * np.cos(x),
    ]))


def _eq25_and_gauge(b: GridField) -> tuple[float, float]:
    """The eq. 25 residual of f1(b) and its Coulomb-gauge certificate."""
    h = f1(b)
    return hamiltonian_residual(h, b), codiff(h).sup_norm() / max(h.sup_norm(), 1e-300)


def comomentum_report(grid, rng, pairs, triples, timer) -> dict:
    """The `comomentum` report section: the largest residuals of eq. 25
    (with the Coulomb gauge), eqs. 26 and 29 (with the harmonic part of
    mu2) over `pairs` tower pairs, of eq. 27 over `triples` tower triples,
    all drawn from `rng` in that order, and eq. 25 and the equivariance
    defect of the ABC flow on the 2 pi box of the same N.  eq29 is eq26's
    numerator over another norm (see pair_identities), so it cannot fail on
    its own.

    Stages "eq25_suite", "eq26_eq29_suite", "eq27_suite" and "abc_fixture"
    are timed on `timer`.  Each drawn field's divergence is checked once, and
    brackets are not re-checked.  No suite's fields outlive it: each pair or
    triple goes to one call that returns residuals only.
    """
    timer.start("eq25_suite")
    # each pair's second field is drawn only to keep rng's stream
    eq25, gauge = zip(*[_eq25_and_gauge(tower_pair(grid, rng)[0]) for _ in range(pairs)])
    timer.stop()
    timer.start("eq26_eq29_suite")
    idents = [pair_identities(*tower_pair(grid, rng)) for _ in range(pairs)]
    timer.stop()
    timer.start("eq27_suite")
    eq27 = [triple_evaluation_residual(*tower_triple(grid, rng)) for _ in range(triples)]
    timer.stop()
    timer.start("abc_fixture")
    if abs(grid.box_length - 2 * np.pi) > 1e-12:
        grid = Grid3(grid.n_points, 2 * np.pi)
    v = abc_flow(grid)
    h = f1(v)
    abc_eq25 = hamiltonian_residual(h, v)
    defect_norm = equivariance_defect(v, v, h=h).sup_norm() / float(np.max(dot(v, v)))
    timer.stop()
    return {
        "eq25": checked(max(*eq25, abc_eq25), EPS_HAM),
        "eq26": checked(max(i["eq26"] for i in idents), 1e-6),
        "eq27": checked(max(eq27), 1e-5) if eq27 else None,
        "eq29": checked(max(i["eq29"] for i in idents), 1e-6),
        "gauge": checked(max(gauge), 1e-9),
        "mu2_harmonic_part": checked(max(i["harmonic_part"] for i in idents),
                                     EPS_OBSTRUCTION),
        "equivariance_defect_norm": {
            "value": defect_norm,
            "threshold": 0.1,
            "exceeds": bool(defect_norm > 0.1),
        },
    }
