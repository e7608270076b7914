"""Vanishing horizon: constrained minimizers localize, and their energies
approach the local limit predicted by the density.

A 1D bar pinned to the stretched datum g(x) = 2x on a boundary collar is
minimized under box kernels of shrinking radius 1/n.  Three things happen at
once, and the table tracks all of them:

* the minimal energies increase toward the local value: for the stretch
  t = 2 with Phi(t) = t^2 and m = 1 the limit density is Phi(t - 1) = 1, so
  the energy tends to 1 * |domain| = 1 from below (the nonlocal horizon
  always buys a boundary discount);
* successive minimizers converge in discrete L^p (distance column);
* integrating the density bounds over the minimizer's own gradient brackets
  the energy once the horizon is small.
"""

from peribond.kernels import box_sequence
from peribond.grids import box_grid
from peribond.materials import power_potential
from peribond.solver import localization_experiment

print(__doc__)

rows = localization_experiment(
    [[2.0]], power_potential(2.0), 1.0,
    box_sequence(1, delta_law=lambda n: 1.0 / n),
    n_values=[2, 4, 8, 16],
    grid_law=lambda n: box_grid(1, 0.0, 1.0, max(64, 8 * n)),
    collar_width=0.1)

print(f"{'n':>4} {'horizon':>9} {'energy':>10} {'L^p dist':>10} "
      f"{'lower int':>10} {'upper int':>10}")
for r in rows:
    dist = "-" if r.lp_dist_prev != r.lp_dist_prev else f"{r.lp_dist_prev:.2e}"
    print(f"{r.n:>4} {1.0/r.n:>9.4f} {r.energy:>10.5f} {dist:>10} "
          f"{r.lower_int:>10.5f} {r.tilde_int:>10.5f}")

print("\nthe energy column climbs toward the local limit 1; the last rows sit")
print("inside the density bracket computed from their own gradients.")
