"""Frozen sign conventions, fixed gates and default tolerances.

Every sign that is a convention rather than a theorem lives here, so the
numerics in the rest of the package can be audited against one table.
"""

# Orientation: dx ^ dy ^ dz is the positive volume form.
#
# Codifferential on degree k in three dimensions: delta = CODIFF_SIGN[k] * (*d*).
# The signs are the unique ones making <df, g> = <f, delta g> hold for the
# L2 inner product on the periodic box (adjointness is normative; the table
# is derived from it).
CODIFF_SIGN = {1: -1, 2: +1, 3: -1}

# Lie bracket used inside the co-momentum tower (mu2, the boundary operator
# on wedges, and the bracket-defect identity), as a multiple of the
# hydrodynamical bracket curl(a x b).  With +1 the 1-form mu2 fails to be
# closed (off by -2*iota_{curl(a x b)}nu); with -1 (the standard Jacobi-Lie
# bracket on divergence-free fields) closedness, the bracket-defect identity
# and the triple-evaluation identity all hold exactly.  The equivariance
# defect is defect(xi, b) = L_xi f1(b) - f1([xi, b]) with this bracket; for
# xi = b it equals -d<B, b> (minus the differential of the helicity density).
TOWER_BRACKET_SIGN = -1

# Disc duals: a disc with unit normal n and boundary oriented right-handed
# around n satisfies d(disc_dual) = +tube_2form(boundary).  Scene components
# are oriented curves; their disc duals use the opposite normal so that
# d(v_L) = -omega_L, matching dv_L + iota_{xi_L} nu = 0 with
# xi_L = *omega_L, the vector field (held as its flat) of omega_L.
DISC_DUAL_SIGN = -1

# Sign relating the dT3 meridian period of the triple Massey form to the
# combinatorial mu-bar(123) of the shipped Borromean fixture.  Calibrated
# once against the Magnus-expansion oracle and frozen; reports carry the
# magnitude and this sign separately.  It is calibrated at length 3 only:
# the period of a longer top form Omega_{1..n} on dT_n reuses it unchecked
# until the sign is derived.
TRIPLE_LINKING_SIGN = +1

# Tolerances a `massey` config may set: the four of the Massey hierarchy,
# which massey_report reads for its gates and for the "tol" of the gates it
# reports.  scenes.tolerance_config rejects any other key.
DEFAULT_TOLERANCES = {
    "eps_massey": 0.05,      # masked residual for stored Massey primitives
    "eps_period": 0.1,       # meridian-period gate for solve_primitive
    "cg_tol": 1e-8,          # normal-equation residual (relative)
    "cg_maxiter": 5000,
}

# Fixed gates, read where they are applied and in the reports that show
# them; no config sets them.
EPS_DIV = 1e-10          # relative divergence for "divergence-free"
EPS_MEAN = 1e-10         # relative zero-mean test for inversion inputs
EPS_HARM = 1e-8          # relative harmonic part allowed by laplace_inv
EPS_HAM = 1e-8           # Hamiltonian residual of f1 (eq. 25)
EPS_OBSTRUCTION = 1e-6   # harmonic part of mu2 tolerated by f2
QUAD_REFINE = 1e-4       # adaptive quadrature stopping rule (relative)
CROSS_ANGLE = 1e-3       # min transversality angle (rad) for crossings
CROSS_SEP = 1e-3         # min crossing separation, relative to diameter

# Panel counts for meridian-torus surface quadrature.
MERIDIAN_PANELS = (64, 256)  # (cross-parameter, longitude)
