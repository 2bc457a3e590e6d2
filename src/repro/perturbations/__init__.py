"""The linearized Einstein-Boltzmann system (synchronous gauge).

This package is the heart of the LINGER reproduction: for a single
comoving wavenumber ``k`` it evolves the coupled, linearized Einstein,
Boltzmann and fluid equations of Ma & Bertschinger (1995) from deep in
the radiation era to the present:

* metric perturbations ``h`` and ``eta``,
* cold dark matter and baryons (with Thomson coupling and a first-order
  tight-coupling approximation at early times),
* the photon temperature and polarization multipole hierarchies with
  the full angular dependence of Thomson scattering,
* the massless-neutrino hierarchy,
* massive neutrinos on a comoving-momentum grid (no fluid or
  free-streaming approximation),

and records the gauge-invariant observables (conformal Newtonian
potentials psi/phi, line-of-sight sources, transfer functions).
"""

from .state import StateLayout
from .initial import (
    adiabatic_initial_conditions,
    adiabatic_initial_conditions_newtonian,
    isocurvature_initial_conditions,
)
from .system import PerturbationSystem
from .system_newtonian import NewtonianPerturbationSystem
from .evolve import (
    ModeResult,
    default_record_grid,
    record_grid_start,
    evolve_mode,
)
from .evolve_newtonian import evolve_mode_newtonian
from .gauges import newtonian_potentials

__all__ = [
    "StateLayout",
    "adiabatic_initial_conditions",
    "adiabatic_initial_conditions_newtonian",
    "isocurvature_initial_conditions",
    "PerturbationSystem",
    "NewtonianPerturbationSystem",
    "ModeResult",
    "evolve_mode",
    "evolve_mode_newtonian",
    "default_record_grid",
    "record_grid_start",
    "newtonian_potentials",
]
