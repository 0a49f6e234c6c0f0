"""Linking numbers two ways, and helicity as total linking.

The Gauss double integral and the signed-crossing count are independent
estimators; tube-link helicity reproduces the linking matrix, and the ABC
flow realizes the analytic helicity identity.
"""

import numpy as np

from vortexlink.curves import borromean_rings, hopf_link, split_link
from vortexlink.diagrams import diagram_from_curves
from vortexlink.grid import Grid3, GridField
from vortexlink.linking import gauss_linking, gauss_writhe
from vortexlink.operators import ext_d
from vortexlink.tubes import LinkFields, helicity, link_helicity

grid = Grid3(96, 2 * np.pi)

hopf = hopf_link()
c1, c2 = hopf.components
print("Hopf gauss linking:   ", gauss_linking(c1, c2))
# one projection's diagram gives the crossing linking matrix and the
# blackboard framings
diagram = diagram_from_curves(hopf.components, (0.13, 0.21, 0.95))
print("Hopf crossing linking:", diagram.linking_matrix()[0][1])
print("component writhe/framing:", gauss_writhe(c1), diagram.self_writhe(0))

split = split_link()
print("split gauss linking:  ", gauss_linking(*split.components))

bor = borromean_rings()
print("Borromean pairwise:   ",
      [round(gauss_linking(bor.components[i], bor.components[j]), 5)
       for i in range(3) for j in range(i + 1, 3)])

print("building Hopf tube fields...")
fields = LinkFields.build(hopf, grid)
H = link_helicity(hopf, grid, fields)
print("Hopf tube helicity:   ", H, " (sum of linking numbers = +-2)")
print("helicity matrix:")
print(np.array_str(fields.helicity_matrix(), precision=4, suppress_small=True))

# the ABC eigenfield: H = integral |v|^2 = (2 pi)^3 (A^2+B^2+C^2)
x, y, z = grid.meshgrid()
A, B, C = 1.0, 1.0, 1.0
abc = GridField(grid, 1, np.stack([
    A * np.sin(z) + C * np.cos(y),
    B * np.sin(x) + A * np.cos(z),
    C * np.sin(y) + B * np.cos(x),
]))
print("ABC helicity:", helicity(abc, ext_d(abc)),
      " target:", (2 * np.pi) ** 3 * (A**2 + B**2 + C**2))
