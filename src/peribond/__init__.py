"""peribond: bond-based nonlocal energies, their small-displacement limit and
their vanishing-horizon limit, with two-sided bounds on the limiting density.
"""

__version__ = "0.1.0"

from .grids import (Grid, SphereQuadrature, SubdomainMask, VectorField,
                    affine_field, box_grid, box_subdomain, field_from_function,
                    full_mask, sphere_quadrature)
from .kernels import (Kernel, KernelSequence, box_kernel, box_sequence,
                      make_fractional, make_rescaled)
from .materials import (CATALOG_TAGS, MicroPotential, Potential,
                        catalog_potential, power_potential, quartic_potential,
                        strain)
from .energy import (EnergyReport, PairSet, StrainDomainError, build_pairs,
                     energy_E0, energy_E_eps, energy_Fn, energy_gradient_Fn,
                     gradient_Fn, seminorm_W)
from .density import (DensityBounds, closed_form_tilde_2d, compute_bounds,
                      density_lower, density_lower_batch, density_tilde,
                      density_tilde_batch, singular_values, zero_set_predicate)
from .constructions import (LaminateSpec, RigidityResult, SawtoothEnergy,
                            laminate_energy_decay, laminate_field,
                            laminate_profile, rigidity_reconstruct,
                            sawtooth_energy, sawtooth_value)
from .solver import (DirichletProblem, LinearizationTable, MinimizeResult,
                     linearization_experiment, localization_experiment,
                     minimize_Fng, minimize_multistart)
