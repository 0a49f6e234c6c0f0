"""The hydrodynamical co-momentum tower on the torus.

Checks the defining identity of the Hamiltonian 1-form, the closedness and
potential of the pair map, the bracket-defect identity, the triple
evaluation, and the non-equivariance witnessed by the ABC flow.
"""

import numpy as np

from vortexlink.comomentum import (
    equivariance_defect,
    f1,
    hamiltonian_residual,
    kks_pairing,
    mu2,
    mu2_certificates,
    pair_identities,
    triple_evaluation_residual,
)
from vortexlink.grid import Grid3, GridField, dot
from vortexlink.random_fields import tower_pair, tower_triple

grid = Grid3(48, 2 * np.pi)
rng = np.random.default_rng(7)

b, c = tower_pair(grid, rng)
print("Hamiltonian residual d f1(b) + iota_b nu:", hamiltonian_residual(f1(b), b))

m = mu2(b, c)
cert = mu2_certificates(m)
print("mu2 closedness:", cert["closedness"], " harmonic part:", cert["harmonic_part"])
ident = pair_identities(b, c)
print("potential residual d f2 = mu2:", ident["eq26"])
print("bracket-defect identity:", ident["eq29"])

x1, x2, x3 = tower_triple(grid, rng)
print("triple evaluation f2(boundary) = nu(x1,x2,x3):",
      triple_evaluation_residual(x1, x2, x3))
print("KKS pairing antisymmetry:",
      kks_pairing(x1, x2, x3) + kks_pairing(x1, x3, x2))

# the ABC flow is a curl eigenfield with non-constant helicity density,
# which obstructs equivariance of the co-momentum map
x, y, z = grid.meshgrid()
abc = GridField(grid, 1, np.stack([
    np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x),
]))
defect = equivariance_defect(abc, abc)
print("ABC equivariance defect sup:", defect.sup_norm(),
      " vs 0.1*|v|^2:", 0.1 * float(np.max(dot(abc, abc))))

# a single Fourier mode has pointwise-zero helicity density: no defect
single = GridField(grid, 1, np.stack([np.zeros_like(x), np.sin(x), np.zeros_like(x)]))
print("zero-helicity mode defect:", equivariance_defect(single, single).sup_norm())
