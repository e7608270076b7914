"""Small-displacement limit: the rescaled bond energy converges to a
quadratic functional, at first order in the displacement scale.

Deform the identity by eps * u, divide the bond energy by eps^2, and let
eps -> 0: the limit is a quadratic form in the directional difference
quotients of u, weighted by the interaction kernel k(r) * psi''(r, 0)
derived from the bond response.  The table shows |E_eps - E_0| shrinking
linearly in eps for a genuinely nonquadratic response, and two edge cases:

* a quadratic response in the collinear (1D, m = 1) geometry is exact at
  every eps -- there is nothing left to linearize;
* an even response (cohesive bonds depend on the strain only through its
  square) in the same geometry converges at second order instead of first.
"""

import numpy as np

from peribond.grids import box_grid, field_from_function
from peribond.materials import catalog_potential
from peribond.solver import linearization_experiment

print(__doc__)

grid = box_grid(1, 0.0, 1.0, 96)
u = field_from_function(grid, lambda x: 0.1 * x**2)
eps = [0.2, 0.1, 0.05, 0.025]

for tag in ("quartic", "mbm_smooth", "cohesive"):
    tab = linearization_experiment(u, catalog_potential(tag), 1.0, eps,
                                   support_radius=0.2)
    print(f"bond response '{tag}':  E_0 = {tab.E0:.8f}")
    for row in tab.rows:
        print(f"  eps = {row.eps:>6}   E_eps = {row.E_eps:.10f}"
              f"   |E_eps - E_0| = {row.abs_err:.3e}")
    slope = "exact" if np.all(tab.errors() <= 1e-12) else f"{tab.slope:.3f}"
    print(f"  fitted log-log rate: {slope}\n")
