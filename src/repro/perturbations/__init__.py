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
from .operator import BoltzmannOperator, available_kernels
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
    evolve_modes_batched,
)
from .evolve_newtonian import evolve_mode_newtonian
from .gauges import newtonian_potentials
from .tensors import TensorMode, cl_tensor, evolve_tensor_mode

__all__ = [
    "StateLayout",
    "BoltzmannOperator",
    "available_kernels",
    "adiabatic_initial_conditions",
    "adiabatic_initial_conditions_newtonian",
    "isocurvature_initial_conditions",
    "PerturbationSystem",
    "NewtonianPerturbationSystem",
    "ModeResult",
    "evolve_mode",
    "evolve_modes_batched",
    "evolve_mode_newtonian",
    "default_record_grid",
    "record_grid_start",
    "newtonian_potentials",
    "TensorMode",
    "evolve_tensor_mode",
    "cl_tensor",
]
