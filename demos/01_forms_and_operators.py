"""Differential forms on the periodic box: the operator zoo.

Builds random band-limited fields and walks through the structural
identities the spectral calculus satisfies to rounding error.
"""

import numpy as np

from vortexlink.grid import Grid3, cross, dot
from vortexlink.operators import (
    codiff,
    contract,
    curl_inv,
    ext_d,
    hodge_star,
    l2_inner,
    laplace_inv,
    volume_form,
    wedge,
)
from vortexlink.random_fields import random_form, random_solenoidal

grid = Grid3(48, 2 * np.pi)
rng = np.random.default_rng(1)

print(f"grid: {grid.n_points}^3 points, box length {grid.box_length:.3f}")

# d^2 = 0 and the Leibniz rule
f = random_form(grid, 0, rng, kmax=4)
beta = random_form(grid, 1, rng, kmax=4)
gamma = random_form(grid, 1, rng, kmax=4)
print("d(df)              ", ext_d(ext_d(f)).sup_norm())
leib = ext_d(wedge(beta, gamma)) - wedge(ext_d(beta), gamma) + wedge(beta, ext_d(gamma))
print("Leibniz defect     ", leib.sup_norm())

# Hodge star is an involution, codifferential is the adjoint
print("**beta - beta      ", (hodge_star(hodge_star(beta)) - beta).sup_norm())
lhs = l2_inner(ext_d(beta), random_form(grid, 2, rng))
print("adjointness sample  <d beta, omega> computed; pairing with codiff agrees to")
omega = random_form(grid, 2, rng, kmax=4)
print("                   ", abs(l2_inner(ext_d(beta), omega) - l2_inner(beta, codiff(omega))))

# the multisymplectic map iota_xi nu = *xi and interior products
xi = random_solenoidal(grid, rng, kmax=4)
nu = volume_form(grid)
print("iota_xi iota_xi nu ", contract(xi, hodge_star(xi)).sup_norm())
x1, x2, x3 = (random_solenoidal(grid, rng, kmax=3) for _ in range(3))
triple = contract(x3, contract(x2, contract(x1, nu)))
det = dot(cross(x1, x2), x3)
print("nu(x1,x2,x3) vs det", np.max(np.abs(triple.comps[0] - det)))

# spectral inversions
b = random_solenoidal(grid, rng, kmax=4)
B = curl_inv(b)
print("curl curl^-1 b - b ", (hodge_star(ext_d(B)) - b).sup_norm())
g = laplace_inv(beta)
print("Delta Delta^-1     ", (codiff(ext_d(g)) + ext_d(codiff(g)) - beta).sup_norm())
